"""Counter dynamics: frozen-table reproduction, reference oracle, invariants."""

import dataclasses
import gc
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from roadphases import dynamics
from roadphases.cli import counter_lines, occupancy_lines
from roadphases.dynamics import (
    CONTINUOUS,
    DISCRETE,
    Simulation,
    StepKernel,
    check_occupancy,
    density,
    init_occupancy,
    kernel_for,
    occupancy_at,
    simulate,
    step,
)
from roadphases.topology import build_figure_eight, build_torus_city, build_two_junction

from fig8_reference import as_list, reference_occupancy, reference_trajectory
import reference

A55 = [0, 1, 0, 1, 0, 1, 0, 0, 1, 0]

# Continuous counters of the 10-slot instance, k = 0..5 (frozen).
TABLE_CONTINUOUS = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 1],
    [0.5, 0, 1, 0, 0, 0.5, 1, 1, 0, 1],
    [0.5, 0.5, 1, 0, 1, 0.5, 1.5, 1, 1, 1],
    [1, 0.5, 1, 1, 1, 1, 1.5, 1.5, 1, 1],
    [1, 1, 1.5, 1, 1, 1, 2, 1.5, 1, 2],
]

# Discrete counters of the same instance (frozen).
TABLE_DISCRETE = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 1],
    [1, 0, 1, 0, 0, 0, 1, 1, 0, 1],
    [1, 1, 1, 0, 1, 0, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 2, 1, 1, 1, 2, 1, 1, 2],
]

# Car positions reconstructed from the discrete run, k = 0..5 (frozen).
# Columns follow slot order y_1..y_10 (y_5 = west sub-cell, y_10 = south).
TABLE_POSITIONS = [
    [0, 1, 0, 1, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 1, 0, 0, 1, 0, 0, 1],
    [1, 0, 1, 1, 0, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 1, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 1, 0, 0, 1, 0, 0, 1],
]


def walk_positions(t):
    """Counting positions as a walk over the topology lists them: ("cell",
    slot) or ("junction", id), each junction at the place of its slot_a."""
    items = [(c, ("cell", c)) for r in t.roads for c in r.cells]
    items += [(j.slot_a, ("junction", i)) for i, j in enumerate(t.junctions)]
    return [pos for _, pos in sorted(items)]


def walk_placement(t, count, seed):
    """Seeded placement, one position and one sub-cell draw at a time."""
    rng = np.random.default_rng(seed)
    positions = walk_positions(t)
    chosen = rng.choice(len(positions), size=count, replace=False)
    a = np.zeros(t.n_slots, dtype=np.int64)
    for idx in sorted(chosen):
        kind, ref = positions[idx]
        if kind == "cell":
            a[ref] = 1
        else:
            j = t.junctions[ref]
            a[j.slot_b if rng.integers(2) else j.slot_a] = 1
    return a


def walk_line(t, y):
    """Occupancy line, one counting position at a time."""
    chars = []
    for kind, ref in walk_positions(t):
        if kind == "cell":
            chars.append("1" if y[ref] else "0")
        else:
            j = t.junctions[ref]
            west, south = y[j.slot_a], y[j.slot_b]
            chars.append("B" if west and south else
                         "W" if west else "S" if south else "0")
    return "".join(chars)


def _swap_junction_slots(t):
    """The same network with the slot pairs of junctions 0 and 1 swapped,
    so that junction ids and counting order disagree."""
    j0, j1 = t.junctions
    return dataclasses.replace(t, junctions=(
        dataclasses.replace(j0, slot_a=j1.slot_a, slot_b=j1.slot_b),
        dataclasses.replace(j1, slot_a=j0.slot_a, slot_b=j0.slot_b)))


PLACEMENT_NETWORKS = {
    "figure_eight": build_figure_eight(5, 4),
    "figure_eight_cap2": build_figure_eight(4, 6, capacity=2),
    "two_junction": build_two_junction(3, 2, 4, 2),
    "two_junction_cap2": build_two_junction(2, 3, 2, 2, capacity=2),
    "two_junction_swapped": _swap_junction_slots(
        build_two_junction(2, 4, 3, 2)),
    "torus": build_torus_city(2, 2, 2),
    "torus_cap2": build_torus_city(2, 3, 1, capacity=2),
}


@pytest.fixture(scope="module")
def fig8_55():
    return build_figure_eight(5, 5)


class TestTableReproduction:
    def test_continuous_counters(self, fig8_55):
        states = simulate(fig8_55, A55, CONTINUOUS, horizon=5)
        assert states.tolist() == TABLE_CONTINUOUS

    def test_discrete_counters(self, fig8_55):
        states = simulate(fig8_55, A55, DISCRETE, horizon=5)
        assert states.tolist() == TABLE_DISCRETE

    def test_positions(self, fig8_55):
        states = simulate(fig8_55, A55, DISCRETE, horizon=5)
        for state, expected in zip(states, TABLE_POSITIONS):
            y = occupancy_at(state, A55, fig8_55)
            assert y.tolist() == expected

    def test_single_steps_match_table(self, fig8_55):
        x1 = step(np.zeros(10), A55, fig8_55, CONTINUOUS)
        assert x1.tolist() == TABLE_CONTINUOUS[1]
        x2 = step(x1, A55, fig8_55, CONTINUOUS)
        assert x2.tolist() == TABLE_CONTINUOUS[2]
        d2 = step(np.array(TABLE_DISCRETE[1]), A55, fig8_55, DISCRETE)
        assert d2.tolist() == TABLE_DISCRETE[2]


class TestAgainstReference:
    """The vectorized engine against the naive Fraction transcription."""

    @pytest.mark.parametrize("n,m,seed", [
        (5, 5, 0), (2, 2, 1), (2, 7, 2), (7, 2, 3), (12, 5, 4),
        (9, 14, 5), (3, 3, 6), (20, 7, 7),
    ])
    @pytest.mark.parametrize("discrete", [False, True])
    def test_random_instances(self, n, m, seed, discrete):
        t = build_figure_eight(n, m)
        rng = np.random.default_rng(seed)
        count = int(rng.integers(0, t.counting_size + 1))
        a = init_occupancy(t, count=count, seed=seed)
        horizon = 4 * (n + m)
        ref = reference_trajectory(a.tolist(), n, m, horizon,
                                   discrete=discrete)
        mode = DISCRETE if discrete else CONTINUOUS
        states = simulate(t, a, mode, horizon=horizon)
        for k, x in enumerate(states):
            expect = [float(v) for v in as_list(ref[k], n + m)]
            assert x.tolist() == expect, f"k={k}"

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_capacity_two_against_reference(self, capacity):
        n, m = 6, 4
        t = build_figure_eight(n, m, capacity=capacity)
        a = init_occupancy(t, count=5, seed=11)
        ref = reference_trajectory(a.tolist(), n, m, 40, discrete=True,
                                   capacity=capacity)
        states = simulate(t, a, DISCRETE, horizon=40)
        for k, x in enumerate(states):
            assert x.tolist() == as_list(ref[k], n + m), f"k={k}"

    def test_occupancy_against_reference(self):
        n, m = 7, 5
        t = build_figure_eight(n, m)
        a = init_occupancy(t, count=6, seed=3)
        states = simulate(t, a, DISCRETE, horizon=30)
        x_ref = reference_trajectory(a.tolist(), n, m, 30, discrete=True)
        a_ref = {i + 1: int(v) for i, v in enumerate(a.tolist())}
        for k, state in enumerate(states):
            y = occupancy_at(state, a, t)
            y_ref = reference_occupancy(x_ref[k], a_ref, n, m)
            assert y.tolist() == as_list(y_ref, n + m), f"k={k}"


class RecordedGates:
    """A policy that replays pre-drawn gates, (steps, lanes, junctions)."""

    policy_id = "recorded"

    def __init__(self, gates):
        self.gates = gates

    def reset(self, sim):
        pass

    def greens(self, k, sim):
        return self.gates[k]


@st.composite
def small_networks(draw):
    capacity = draw(st.sampled_from([1, 2]))
    family = draw(st.sampled_from(["figure_eight", "two_junction", "torus"]))
    if family == "figure_eight":
        return build_figure_eight(draw(st.integers(2, 9)),
                                  draw(st.integers(2, 9)), capacity=capacity)
    if family == "two_junction":
        return build_two_junction(
            *(draw(st.integers(2, 6)) for _ in range(4)), capacity=capacity)
    return build_torus_city(draw(st.integers(2, 3)), draw(st.integers(2, 3)),
                            draw(st.integers(1, 3)), capacity=capacity)


class TestAgainstNetworkReference:
    """Discrete counters of any network against tests/reference.py, which
    reads the topology fields and shares no index array with the kernel."""

    @settings(max_examples=60, deadline=None)
    @given(t=small_networks(), lanes=st.integers(1, 3), gated=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_counters_match_reference(self, t, lanes, gated, seed):
        rng = np.random.default_rng(seed)
        horizon = 3 * t.counting_size
        a = np.stack([init_occupancy(
            t, count=int(rng.integers(t.counting_size + 1)),
            seed=int(rng.integers(1 << 30))) for _ in range(lanes)])
        if t.junctions[0].capacity == 2:
            # a capacity-2 junction may also start with both sub-cells full
            for j in t.junctions:
                full = rng.integers(2, size=lanes) == 1
                a[full, j.slot_a] = a[full, j.slot_b] = 1
        gates = rng.integers(2, size=(horizon, lanes, len(t.junctions))) > 0
        sim = Simulation(t, a, DISCRETE,
                         RecordedGates(gates) if gated else None)
        refs = [reference.reference_trajectory(
            t, lane.tolist(), horizon, discrete=True,
            gates=gates[:, i] if gated else None) for i, lane in enumerate(a)]
        for k in range(horizon + 1):
            x = sim.x
            for lane, ref in enumerate(refs):
                assert x[lane].tolist() == ref[k], f"lane {lane}, k={k}"
            if k < horizon:
                sim.advance()

    @pytest.mark.parametrize("discrete", [False, True])
    def test_fig8_reference_agrees(self, discrete):
        # the two oracles on the one network both cover
        n, m = 7, 4
        t = build_figure_eight(n, m)
        a = init_occupancy(t, count=5, seed=4)
        general = reference.reference_trajectory(t, a.tolist(), 40, discrete)
        fig8 = reference_trajectory(a.tolist(), n, m, 40, discrete=discrete)
        assert general == [as_list(x, n + m) for x in fig8]


def exact_bits(values) -> tuple[int, int]:
    """(D, M) of exact dyadic values: the most binary digits below the
    point, and the longest integer part in bits."""
    return (max(Fraction(v).denominator.bit_length() - 1 for v in values),
            max(int(abs(v)).bit_length() for v in values))


EXACTNESS_CASES = {
    "fig8_45_15_45cars": (build_figure_eight(45, 15), 45),
    "fig8_45_15_55cars": (build_figure_eight(45, 15), 55),
    "two_junction": (build_two_junction(5, 4, 4, 5), 8),
    "torus_2x3x3": (build_torus_city(2, 3, 3), 14),
}


class TestExactnessBound:
    """Continuous counters equal the Fraction oracle at step k + 1 whenever
    the placement and every exact state up to step k fit D + M + 2 <= 53
    bits (D binary digits below the point, M above it, each the largest
    over those values): the bound an exactness guard can rest on."""

    HORIZON = 240

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gated", [False, True],
                             ids=["priority", "random_gates"])
    @pytest.mark.parametrize("name", EXACTNESS_CASES)
    def test_engine_is_exact_within_the_bound(self, name, gated, seed):
        t, count = EXACTNESS_CASES[name]
        a = init_occupancy(t, count=count, seed=seed)
        gates = (np.random.default_rng(seed).random(
            (self.HORIZON, len(t.junctions))) < 0.5) if gated else None
        fired = self.check_within_bound(t, a, gates)
        if name.startswith("fig8"):
            # the figure-eight runs outgrow the mantissa within the horizon,
            # so the bound is tested where it matters
            assert fired is not None

    @settings(max_examples=30, deadline=None)
    @given(t=small_networks(), gated=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bound_holds_on_every_family(self, t, gated, seed):
        rng = np.random.default_rng(seed)
        a = init_occupancy(t, count=int(rng.integers(t.counting_size + 1)),
                           seed=int(rng.integers(1 << 30)))
        gates = rng.integers(2, size=(self.HORIZON, len(t.junctions))) > 0 \
            if gated else None
        self.check_within_bound(t, a, gates)

    def check_within_bound(self, t, a, gates):
        """Step a continuous run of placement ``a`` (replaying ``gates``,
        or under the priority rule if None) beside the Fraction oracle;
        return the first step whose state breaks the bound, or None."""
        refs = reference.reference_trajectory(t, a.tolist(), self.HORIZON,
                                              gates=gates)
        sim = Simulation(t, a, CONTINUOUS,
                         None if gates is None else RecordedGates(gates))
        D, M = exact_bits(a.tolist())
        fired = None
        for k, s in enumerate(sim.trajectory(self.HORIZON)):
            if fired is None:
                # the placement and states 0 .. k - 1 fit: step k is exact
                assert s.x.tolist() == refs[k], f"k={k}"
            d, m = exact_bits(refs[k])
            D, M = max(D, d), max(M, m)
            if fired is None and D + M + 2 > 53:
                fired = k
        return fired


class TestTrivialCases:
    def test_empty_network_never_moves(self, fig8_55):
        a = np.zeros(10, dtype=int)
        states = simulate(fig8_55, a, CONTINUOUS, horizon=8)
        assert not states.any()

    def test_full_network_freezes(self):
        t = build_figure_eight(6, 4)
        a = np.ones(t.n_slots, dtype=int)
        a[t.junctions[0].slot_b] = 0  # junction holds one car (capacity 1)
        assert density(a, t) == 1.0
        states = simulate(t, a, DISCRETE, horizon=30)
        assert not states[-1].any()

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_simulate_rejects_an_empty_horizon(self, fig8_55, horizon):
        with pytest.raises(ValueError, match=r"^horizon must be >= 1$"):
            simulate(fig8_55, A55, CONTINUOUS, horizon=horizon)

    def test_occupancy_at_time_zero_is_a(self, fig8_55):
        x = np.zeros(10, dtype=np.int64)
        assert occupancy_at(x, A55, fig8_55).tolist() == A55

    def test_continuous_occupancy_rejected(self, fig8_55):
        states = simulate(fig8_55, A55, CONTINUOUS, horizon=3)
        with pytest.raises(ValueError, match="needs discrete mode"):
            occupancy_at(states[-1], A55, fig8_55)
        with pytest.raises(ValueError, match="needs discrete mode"):
            occupancy_lines(fig8_55, states, A55)


class TestInitOccupancy:
    def test_explicit_density(self, fig8_55):
        a = init_occupancy(fig8_55, values=A55)
        assert density(a, fig8_55) == pytest.approx(4 / 9)

    def test_zero_count(self, fig8_55):
        a = init_occupancy(fig8_55, count=0, seed=1)
        assert not a.any()
        assert density(a, fig8_55) == 0.0

    def test_seeded_count_placement(self):
        t = build_figure_eight(40, 20)
        a = init_occupancy(t, count=12, seed=7)
        assert a.sum() == 12
        assert density(a, t) == pytest.approx(12 / 59)
        check_occupancy(t, a)
        again = init_occupancy(t, count=12, seed=7)
        assert np.array_equal(a, again)

    def test_stack_density_is_per_lane(self):
        t = build_torus_city(2, 3, 2)
        stack = np.stack([init_occupancy(t, count=c, seed=c)
                          for c in (0, 5, 17, t.counting_size)])
        assert density(stack, t).tolist() == [density(a, t) for a in stack]

    def test_density_spec_rounds_count(self):
        t = build_figure_eight(40, 20)
        a = init_occupancy(t, density=0.5, seed=0)
        assert a.sum() == round(0.5 * 59)

    def test_junction_capacity_respected(self):
        t = build_torus_city(2, 2, 1)
        for seed in range(20):
            a = init_occupancy(t, count=t.counting_size, seed=seed)
            check_occupancy(t, a)

    def test_rejects_overfull(self, fig8_55):
        with pytest.raises(ValueError):
            init_occupancy(fig8_55, count=10)  # only 9 counting positions
        bad = list(A55)
        bad[4] = bad[9] = 1  # two cars in a capacity-1 junction
        with pytest.raises(ValueError):
            init_occupancy(fig8_55, values=bad)
        with pytest.raises(ValueError):
            init_occupancy(fig8_55, values=[2] + A55[1:])
        with pytest.raises(ValueError):
            init_occupancy(fig8_55, values=[np.nan] + A55[1:])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e30])
    def test_rejects_a_value_no_int_holds_without_a_warning(self, fig8_55,
                                                            value):
        # checked before the integer cast, which warns on such a value
        with pytest.raises(ValueError, match=r"^occupancies must lie in "
                                             r"\[0, 1\]$"):
            init_occupancy(fig8_55, values=[value] + A55[1:])

    @pytest.mark.parametrize("spec,message", [
        ({}, "specify exactly one of values / count / density"),
        ({"count": 3, "density": 0.5},
         "specify exactly one of values / count / density"),
        ({"values": A55, "count": 3},
         "specify exactly one of values / count / density"),
        ({"density": 1.5}, "density must lie in [0, 1], got 1.5"),
    ], ids=["none", "count_and_density", "values_and_count",
            "density_above_1"])
    def test_rejects_a_bad_spec(self, fig8_55, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            init_occupancy(fig8_55, **spec, seed=0)

    @pytest.mark.parametrize("name", sorted(PLACEMENT_NETWORKS))
    def test_placements_match_position_walk(self, name):
        t = PLACEMENT_NETWORKS[name]
        t.validate()
        for count in range(t.counting_size + 1):
            for seed in range(6):
                want = walk_placement(t, count, seed)
                got = init_occupancy(t, count=count, seed=seed)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (count, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_subcell_draws_match_scalar_draws(self, seed):
        # init_occupancy draws every junction's sub-cell in one call; the
        # placements stay those of one call per junction only while numpy
        # gives both the same values
        for k in (1, 2, 3, 7, 64, 1001):
            one, many = (np.random.default_rng(seed) for _ in range(2))
            one.choice(50, size=3 * seed, replace=False)
            many.choice(50, size=3 * seed, replace=False)
            assert [int(one.integers(2)) for _ in range(k)] == \
                many.integers(2, size=k).tolist()

    def test_names_first_overfull_junction(self):
        t = build_torus_city(3, 3, 2)
        a = np.zeros(t.n_slots, dtype=np.int64)
        for j in (t.junctions[7], t.junctions[4]):
            a[j.slot_a] = a[j.slot_b] = 1
        with pytest.raises(ValueError, match=r"^junction 4 holds more than "
                                             r"its capacity 1$"):
            check_occupancy(t, a)
        # capacity 2 admits both sub-cells
        check_occupancy(build_torus_city(3, 3, 2, capacity=2), a)
        # a stack is reported at its first faulty lane
        lanes = np.zeros((2, t.n_slots), dtype=np.int64)
        for lane, j in zip(lanes, (t.junctions[7], t.junctions[4])):
            lane[j.slot_a] = lane[j.slot_b] = 1
        with pytest.raises(ValueError, match=r"^junction 7 holds more than "
                                             r"its capacity 1$"):
            check_occupancy(t, lanes)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_and_bounded_increments(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        t = build_figure_eight(n, m)
        a = init_occupancy(t, count=int(rng.integers(0, t.counting_size + 1)),
                           seed=seed)
        sim = Simulation(t, a, DISCRETE)
        prev = sim.x.copy()
        for _ in range(12 * t.counting_size):
            sim.advance()
            delta = sim.x - prev
            assert np.all(delta >= 0)
            assert np.all(delta <= 1)
            prev = sim.x.copy()

    @settings(max_examples=40, deadline=None)
    @given(t=small_networks(), seed=st.integers(0, 2 ** 32 - 1))
    def test_increments_are_0_or_1_on_every_family(self, t, seed):
        # the fact that bounds a discrete run's counters by its step count,
        # under random lights too
        rng = np.random.default_rng(seed)
        a = init_occupancy(t, count=int(rng.integers(t.counting_size + 1)),
                           seed=seed)
        x = np.zeros(t.n_slots, np.int64)
        for gate in rng.integers(2, size=(4 * t.counting_size,
                                          len(t.junctions))):
            nxt = step(x, a, t, DISCRETE, gate)
            assert np.isin(nxt - x, (0, 1)).all()
            x = nxt

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_state_widens_to_int64_before_int32_can_wrap(self, capacity):
        # a discrete run steps in int16 up to step 16,382, then in int32 up
        # to step 2**30 - 2, then in int64
        t = build_torus_city(2, 3, 3, capacity=capacity)
        a = init_occupancy(t, density=0.4, seed=3)
        sim = Simulation(t, a, DISCRETE)
        sim.advance(20)
        x = sim.x
        for wide, dtypes in ((16382, [np.int16, np.int16, np.int32, np.int32]),
                             (2 ** 30 - 2, [np.int32, np.int32, np.int64,
                                            np.int64])):
            sim.k, got = wide - 2, []
            for _ in range(4):
                sim.advance()
                x = step(x, a, t, DISCRETE)
                assert sim.x.dtype == np.int64 and np.array_equal(sim.x, x)
                got.append(sim.state.dtype)
            assert got == dtypes
            assert sim._terms.dtype == dtypes[-1]
        assert Simulation(t, a, CONTINUOUS).state.dtype == np.float64

    @pytest.mark.parametrize("builder,args", [
        (build_figure_eight, (6, 9)),
        (build_two_junction, (5, 4, 4, 5)),
        (build_torus_city, (2, 2, 3)),
    ])
    def test_car_conservation(self, builder, args):
        t = builder(*args)
        a = init_occupancy(t, count=t.counting_size // 2, seed=2)
        sim = Simulation(t, a, DISCRETE)
        total = a.sum()
        for _ in range(6 * t.counting_size):
            sim.advance()
            y = sim.kernel.occupancy(sim.x, sim.a)
            assert y.sum() == total
            assert np.all(y >= 0) and np.all(y <= 1)

    def test_additive_homogeneity_exact(self):
        t = build_two_junction(4, 3, 5, 4)
        a = init_occupancy(t, count=7, seed=5)
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.integers(0, 60, size=t.n_slots) / 8.0
            alpha = float(rng.integers(-40, 40)) / 8.0
            base = step(x, a, t, CONTINUOUS)
            shifted = step(x + alpha, a, t, CONTINUOUS)
            assert np.array_equal(shifted, base + alpha)

    def test_bounded_spread(self):
        t = build_figure_eight(11, 7)
        a = init_occupancy(t, count=8, seed=0)
        sim = Simulation(t, a, DISCRETE)
        sim.advance(10 * t.counting_size)
        spread_early = int(sim.x.max() - sim.x.min())
        sim.advance(90 * t.counting_size)
        spread_late = int(sim.x.max() - sim.x.min())
        assert spread_late <= spread_early + 1

    @pytest.mark.parametrize("builder,args,d", [
        (build_two_junction, (8, 6, 6, 8), 0.4),
        (build_torus_city, (2, 2, 4), 0.35),
    ])
    def test_flow_cap_on_multijunction_networks(self, builder, args, d):
        t = builder(*args)
        a = init_occupancy(t, count=round(d * t.counting_size), seed=1)
        sim = Simulation(t, a, DISCRETE)
        K = 40 * t.counting_size
        sim.advance(K // 2)
        x_half = sim.x.copy()
        sim.advance(K - K // 2)
        per_slot = np.max(sim.x - x_half) / (K - K // 2)
        assert per_slot <= 0.25 + 2 / K

    def test_discrete_vs_continuous_within_one(self, fig8_55):
        cont = simulate(fig8_55, A55, CONTINUOUS, horizon=60)
        disc = simulate(fig8_55, A55, DISCRETE, horizon=60)
        for c, d in zip(cont, disc):
            assert np.max(np.abs(d - c)) <= 1.0


class TestStepValidation:
    def test_dimension_mismatch(self, fig8_55):
        with pytest.raises(ValueError):
            step(np.zeros(7), A55, fig8_55, CONTINUOUS)
        with pytest.raises(ValueError):
            step(np.zeros(10), [0, 1], fig8_55, CONTINUOUS)

    def test_gate_shape_checked(self, fig8_55):
        x = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValueError):
            step(x, A55, fig8_55, DISCRETE, gate=np.array([True, False]))

    @pytest.mark.parametrize("gate", [[2], [0.5], [-1], [np.nan]])
    def test_gate_entries_checked(self, fig8_55, gate):
        # a gate of 2 would drive an entry counter below zero
        x = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValueError, match="True/False"):
            step(x, A55, fig8_55, DISCRETE, gate=np.array(gate))
        for ok in ([1], [0.0], [False]):  # 0/1 of any dtype is a light
            step(x, A55, fig8_55, DISCRETE, gate=np.array(ok))

    def test_gate_caps_entries(self, fig8_55):
        # all-red would be invalid policy-wise, but the cap must still bind
        x = np.zeros(10, dtype=np.int64)
        green_pr = step(x, A55, fig8_55, DISCRETE, gate=np.array([True]))
        j = fig8_55.junctions[0]
        assert green_pr[j.slot_a] == 0  # red for the non-priority approach
        assert green_pr[j.slot_b] == 1

    def test_discrete_mode_requires_integers(self, fig8_55):
        with pytest.raises(ValueError):
            step(np.full(10, 0.5), A55, fig8_55, DISCRETE)

    def test_apply_steps_in_the_mode_of_the_counters_dtype(self, fig8_55):
        # one integral state whose next step differs between the modes
        kern, x = kernel_for(fig8_55), np.array(TABLE_DISCRETE[1])
        for dtype, mode, table in ((np.int64, DISCRETE, TABLE_DISCRETE),
                                   (np.int32, DISCRETE, TABLE_DISCRETE),
                                   (np.int16, DISCRETE, TABLE_DISCRETE),
                                   (np.float64, CONTINUOUS, TABLE_CONTINUOUS)):
            got = kern.apply(kern.to_kernel(x.astype(dtype)),
                             kern.terms(np.array(A55, dtype)))
            assert got.dtype == dtype
            got = kern.to_slots(got)  # read as int64 or float64
            assert got.dtype == np.promote_types(dtype, np.int64)
            assert np.array_equal(got, step(x, A55, fig8_55, mode))
            assert got.tolist() == table[2]
        assert TABLE_DISCRETE[2] != TABLE_CONTINUOUS[2]

    def test_step_rejects_unknown_mode(self, fig8_55):
        x = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValueError, match="mode must be one of"):
            step(x, A55, fig8_55, "discrete ")

    def test_occupancy_rejects_long_state(self, fig8_55):
        x = np.zeros(12, dtype=np.int64)
        with pytest.raises(ValueError, match=r"state has shape \(12,\)"):
            occupancy_at(x, A55, fig8_55)
        with pytest.raises(ValueError, match=r"state has shape \(12,\)"):
            occupancy_lines(fig8_55, [x], A55)

    def test_occupancy_rejects_short_state(self, fig8_55):
        x = np.zeros(7, dtype=np.int64)
        with pytest.raises(ValueError, match=r"state has shape \(7,\)"):
            occupancy_at(x, A55, fig8_55)
        with pytest.raises(ValueError, match=r"state has shape \(7,\)"):
            occupancy_lines(fig8_55, [x], A55)


class TestKernelCache:
    def test_topology_collected_after_simulation(self):
        t = build_figure_eight(5, 5)
        ref = weakref.ref(t)
        sim = Simulation(t, A55, DISCRETE)
        sim.advance(3)
        del sim, t
        gc.collect()
        assert ref() is None

    def test_stacks_of_one_block_count_share_a_layout(self):
        # a layout depends on the block count only, whatever the lanes and
        # the itemsize that give it
        t = build_torus_city(3, 4, 2)
        a = np.stack([init_occupancy(t, density=0.4, seed=s)
                      for s in range(16)])
        # discrete stacks step int16 counters, continuous ones float64
        stacks = ((1, CONTINUOUS, 1), (2, DISCRETE, 1), (2, CONTINUOUS, 1),
                  (8, DISCRETE, 1), (3, CONTINUOUS, 2), (16, DISCRETE, 2),
                  (4, CONTINUOUS, 2))
        # stepped in one block each, which lays out block count 1
        want = [simulate(t, a[:lanes], mode, 3)[3]
                for lanes, mode, _ in stacks]
        kern = kernel_for(t)
        with mock.patch.object(dynamics, "BLOCK_BYTES", 2 * kern.rc.size * 16):
            for (lanes, mode, count), x in zip(stacks, want):
                sim = Simulation(t, a[:lanes], mode)
                sim.advance(3)
                row_bytes = sim.state[..., 0].nbytes
                assert len(kern._blocks(row_bytes)) == count
                assert np.array_equal(sim.x, x)
        assert sorted(kern._layouts) == [1, 2]


class TestKernelArrays:
    @pytest.mark.parametrize("t", [build_figure_eight(9, 3),
                                   build_two_junction(7, 3, 5, 4),
                                   build_torus_city(3, 4, 2)],
                             ids=["figure_eight", "two_junction", "city"])
    def test_match_topology_walk(self, t):
        kern = kernel_for(t)
        assert kern.pr_road.tolist() == [j.in_priority for j in t.junctions]
        assert kern.np_road.tolist() == \
            [j.in_nonpriority for j in t.junctions]
        # kernel rows, read back as slots
        assert kern.order[kern.row_first].tolist() == \
            [r.first_cell for r in t.roads]
        assert kern.order[kern.row_last].tolist() == \
            [r.last_cell for r in t.roads]
        entry = {j.in_priority: j.slot_b for j in t.junctions}
        entry.update({j.in_nonpriority: j.slot_a for j in t.junctions})
        assert kern.order[kern.row_entry].tolist() == \
            [entry[i] for i in range(len(t.roads))]
        assert kern.order[kern.row_exit].tolist() == \
            [t.roads[j.out_ceil].first_cell for j in t.junctions] + \
            [t.roads[j.out_floor].first_cell for j in t.junctions]
        # each cell's successor is the next cell, or its road's entry slot;
        # each entry slot's is the first cell of the exit it feeds
        succ = {c: n for r in t.roads for c, n in zip(r.cells, r.cells[1:])}
        succ.update({r.last_cell: entry[i] for i, r in enumerate(t.roads)})
        for j in t.junctions:
            succ[j.slot_b] = t.roads[j.out_ceil].first_cell
            succ[j.slot_a] = t.roads[j.out_floor].first_cell
        assert kern.succ.tolist() == [succ[s] for s in range(t.n_slots)]
        sim = Simulation(t, init_occupancy(t, density=0.5, seed=2))
        for _ in range(30):
            y = kern.occupancy(sim.x, sim.a)
            assert sim.road_counts().tolist() == \
                [int(sum(y[c] for c in r.cells)) for r in t.roads]
            sim.advance()

    def test_int16_state_reads_as_the_int64_run(self):
        t = build_torus_city(3, 4, 2)
        kern = kernel_for(t)
        a = np.stack([init_occupancy(t, density=d, seed=1)
                      for d in (0.3, 0.7)])
        sim, x = Simulation(t, a), np.zeros(a.shape, np.int64)
        for _ in range(20):
            sim.advance()
            x = step(x, a, t)
            got = kern.to_slots(sim.state)
            assert sim.state.dtype == np.int16 and got.dtype == np.int64
            assert np.array_equal(got, x)

    @pytest.mark.parametrize("t", [build_figure_eight(9, 3),
                                   build_two_junction(7, 3, 5, 4),
                                   build_torus_city(3, 4, 2)],
                             ids=["figure_eight", "two_junction", "city"])
    def test_gather_matches_topology_walk(self, t):
        kern = kernel_for(t)
        n, j = kern.order.size, len(t.junctions)
        row = {int(slot): r for r, slot in enumerate(kern.order)}
        # the share rows follow the n slot rows: ceils, then floors
        share = {jn.out_ceil: n + i for i, jn in enumerate(t.junctions)}
        share.update({jn.out_floor: n + j + i
                      for i, jn in enumerate(t.junctions)})
        entry = {jn.in_priority: jn.slot_b for jn in t.junctions}
        entry.update({jn.in_nonpriority: jn.slot_a for jn in t.junctions})
        supply, space = kern.gather[:n], kern.gather[n:]
        for r, road in enumerate(t.roads):
            cells = list(road.cells)
            for i, cell in enumerate(cells):
                assert supply[row[cell]] == (
                    share[r] if i == 0 else row[cells[i - 1]])
                assert space[row[cell]] == row[
                    entry[r] if cell == cells[-1] else cells[i + 1]]
        # each entry's supply is its road's last cell; then each exit
        for jn in t.junctions:
            for road in (jn.in_priority, jn.in_nonpriority):
                assert supply[row[entry[road]]] == \
                    row[t.roads[road].last_cell]
        assert space[kern.rc.size:].tolist() == kern.row_exit.tolist()

    @settings(max_examples=40, deadline=None)
    @given(t=small_networks(), stacked=st.booleans(), discrete=st.booleans(),
           gated=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_share_rows_are_the_entries_shares(self, t, stacked, discrete,
                                               gated, seed):
        # the state carries each junction's shares, written by the step
        # that produces its entries
        kern, rng = kernel_for(t), np.random.default_rng(seed)
        n, j = kern.order.size, len(t.junctions)
        lanes = 3 if stacked else 1
        a = np.stack([init_occupancy(
            t, count=int(rng.integers(t.counting_size + 1)),
            seed=int(rng.integers(1 << 30))) for _ in range(lanes)])
        gates = rng.integers(2, size=(40, lanes, j)) > 0
        sim = Simulation(t, a if stacked else a[0],
                         DISCRETE if discrete else CONTINUOUS,
                         RecordedGates(gates if stacked else gates[:, 0])
                         if gated else None)
        for s in sim.trajectory(len(gates) - 1):
            x = s.x
            entries = x[..., kern.slot_a] + x[..., kern.slot_b]
            if discrete:
                want = [(entries + 1) // 2, entries // 2]
            else:
                want = [entries / 2, entries / 2]
            assert s.state.shape == x.shape[:-1] + (n + 2 * j,)
            assert np.array_equal(s.counters, x[..., kern.order])
            assert np.array_equal(s.state[..., n:],
                                  np.concatenate(want, axis=-1)), f"k={s.k}"

    @settings(max_examples=40, deadline=None)
    @given(t=small_networks(), stacked=st.booleans(), discrete=st.booleans(),
           gated=st.booleans(), blocks=st.integers(2, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_step_as_one_gather(self, t, stacked, discrete, gated,
                                       blocks, seed):
        # a stack wider than BLOCK_BYTES is gathered in blocks of road
        # rows: each lane steps as it does in one block
        rng = np.random.default_rng(seed)
        lanes = 3 if stacked else 1
        a = np.stack([init_occupancy(
            t, count=int(rng.integers(t.counting_size + 1)),
            seed=int(rng.integers(1 << 30))) for _ in range(lanes)])
        a = a if stacked else a[0]
        gates = rng.integers(2, size=(30,) + a.shape[:-1] + (
            len(t.junctions),)) > 0
        sim, late = (Simulation(t, a, DISCRETE if discrete else CONTINUOUS,
                                RecordedGates(gates) if gated else None)
                     for _ in range(2))
        kern, c, dtype = StepKernel(t), sim.kernel.rc.size, sim.state.dtype
        row_bytes = dtype.itemsize * lanes
        assert len(sim.kernel._blocks(row_bytes)) == 1
        states = [sim.state.copy()]
        for _ in gates:
            sim.advance()
            states.append(sim.state.copy())
        # the block count is read at each call: the reference kernel lays
        # out its terms and steps inside the patch; ``late``, whose terms
        # were laid out outside it, with ``sim``'s, steps inside it too
        with mock.patch.object(dynamics, "BLOCK_BYTES", max(
                2 * c * row_bytes // blocks, 1)):
            assert len(kern._blocks(row_bytes)) > 1
            p, x = kern.terms(sim.a.astype(dtype)), states[0]
            for k, gate in enumerate(gates, 1):
                x = kern.apply(x, p, gate if gated else None)
                late.advance()
                assert np.array_equal(x, states[k]), f"k={k}"
                assert np.array_equal(late.state, states[k]), f"k={k}"


# roads of up to 20 cells, so per-road float sums go past numpy's 8-term
# unrolled block
LANE_NETWORKS = {
    "figure_eight": build_figure_eight(21, 4),
    "two_junction": build_two_junction(12, 3, 10, 6),
    "torus": build_torus_city(2, 3, 3),
}


class TestLaneStack:
    """A (lanes, slots) stack against one 1-D call per lane."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(LANE_NETWORKS)),
           discrete=st.booleans(), lanes=st.integers(1, 7),
           gate=st.sampled_from(["none", "shared", "per_lane"]),
           fortran=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_matches_rows(self, name, discrete, lanes, gate, fortran,
                                seed):
        t = LANE_NETWORKS[name]
        kern = kernel_for(t)
        rng = np.random.default_rng(seed)
        a = np.stack([init_occupancy(
            t, count=int(rng.integers(t.counting_size + 1)),
            seed=int(rng.integers(1 << 30))) for _ in range(lanes)])
        # any counters will do: the kernel is a pure function of (x, a)
        x = rng.integers(0, 40, size=a.shape)
        if not discrete:
            a, x = a.astype(float), x * rng.uniform(0.1, 3, size=a.shape)
        if fortran:
            a, x = np.asfortranarray(a), np.asfortranarray(x)
        gates = {"none": None,
                 "shared": rng.integers(2, size=len(t.junctions)) > 0,
                 "per_lane": rng.integers(2, size=(lanes,
                                                   len(t.junctions))) > 0}
        g = gates[gate]

        def apply(x, a, g):
            # one step through the kernel-order entry point, in slot order
            return kern.to_slots(kern.apply(kern.to_kernel(x), kern.terms(a),
                                            g))

        stacked = {"apply": apply(x, a, g),
                   "occupancy": kern.occupancy(x, a),
                   "road_sums": kern.road_sums(x)}
        for lane in range(lanes):
            g_lane = g[lane] if gate == "per_lane" else g
            single = {"apply": apply(x[lane], a[lane], g_lane),
                      "occupancy": kern.occupancy(x[lane], a[lane]),
                      "road_sums": kern.road_sums(x[lane])}
            for op, rows in stacked.items():
                assert rows.shape[0] == lanes and rows.dtype == x.dtype
                assert np.array_equal(rows[lane], single[op]), (op, lane)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_fig8_lanes_match_reference(self, discrete):
        n, m = 9, 5
        t = build_figure_eight(n, m)
        a = np.stack([init_occupancy(t, count=c, seed=c)
                      for c in (0, 2, 5, 7, 10, 13)])
        sim = Simulation(t, a, DISCRETE if discrete else CONTINUOUS)
        refs = [reference_trajectory(lane.tolist(), n, m, 40,
                                     discrete=discrete) for lane in a]
        for k in range(41):
            assert sim.x.shape == a.shape
            for lane, ref in enumerate(refs):
                assert sim.x[lane].tolist() == as_list(ref[k], n + m), \
                    f"lane {lane}, k={k}"
            sim.advance()

    @pytest.mark.parametrize("mode", [CONTINUOUS, DISCRETE])
    def test_x_is_read_only_slot_order(self, mode):
        t = LANE_NETWORKS["two_junction"]
        kern = kernel_for(t)
        a = np.stack([init_occupancy(t, count=c, seed=c) for c in (4, 9, 17)])
        sim = Simulation(t, a, mode)
        state = np.zeros(a.shape)
        for _ in range(60):
            x = sim.x
            assert not x.flags.writeable and x.shape == a.shape
            with pytest.raises(ValueError):
                x[0, 0] = 1
            assert np.array_equal(x, state)
            assert np.array_equal(sim.state, kern.to_kernel(state))
            for read in (sim.road_counts(), sim.poised(), sim.approaches()):
                assert not read.flags.writeable
                with pytest.raises(ValueError):
                    read[0, 0] = 1
            sim.advance()
            state = step(state, a, t, mode)
        with pytest.raises(AttributeError):
            sim.x = state

    def test_every_lane_is_validated(self, fig8_55):
        bad = list(A55)
        bad[4] = bad[9] = 1
        with pytest.raises(ValueError, match="capacity"):
            Simulation(fig8_55, [A55, bad])
        with pytest.raises(ValueError, match="integer"):
            Simulation(fig8_55, [A55, [0.5] + A55[1:]])


class TestTrajectory:
    """``trajectory``, the loop that every measurement steps through."""

    @pytest.mark.parametrize("steps", [0, 1, 25])
    def test_yields_the_simulation_at_each_step(self, fig8_55, steps):
        sim = Simulation(fig8_55, A55)
        sim.advance(4)
        seen = [(s is sim, s.k) for s in sim.trajectory(steps)]
        assert seen == [(True, k) for k in range(4, 4 + steps + 1)]
        assert sim.k == 4 + steps  # no step after the last state

    @pytest.mark.parametrize("mode", [CONTINUOUS, DISCRETE])
    def test_states_are_simulates(self, mode):
        t = LANE_NETWORKS["torus"]
        a = init_occupancy(t, count=9, seed=3)
        gates = np.random.default_rng(0).random(
            (30, kernel_for(t).slot_a.size)) < 0.5
        states = simulate(t, a, mode, horizon=30, policy=RecordedGates(gates))
        sim = Simulation(t, a, mode, RecordedGates(gates))
        state = np.zeros(a.shape)
        for k, (s, simulated) in enumerate(zip(sim.trajectory(30), states,
                                               strict=True)):
            assert s.k == k
            assert np.array_equal(s.x, simulated)
            assert np.array_equal(s.x, state)
            if k < 30:
                state = step(state, a, t, mode, gates[k])

    def test_reads_are_computed_once_per_state(self):
        t = LANE_NETWORKS["torus"]
        a = np.stack([init_occupancy(t, count=c, seed=c) for c in (4, 9)])

        class ReadingGates(RecordedGates):
            def greens(self, k, sim):
                self.read.append(sim.road_counts())
                return self.gates[k]

        policy = ReadingGates(np.ones((12, 2, kernel_for(t).slot_a.size),
                                      bool))
        policy.read = []  # shared with the simulation's copy
        sim = Simulation(t, a, DISCRETE, policy)
        before = []
        for _ in sim.trajectory(12):
            z, b = sim.road_counts(), sim.poised()
            assert sim.road_counts() is z and sim.poised() is b
            assert all(z is not old for old in before)
            before.append(z)
        # each gate reused the counts its state had already given
        assert len(policy.read) == 12
        assert all(r is z for r, z in zip(policy.read, before))


ROAD_COUNT_NETWORKS = {
    "figure_eight": build_figure_eight(9, 5),
    "figure_eight_cap2": build_figure_eight(6, 4, capacity=2),
    "two_junction": build_two_junction(5, 4, 4, 5),
    "two_junction_cap2": build_two_junction(3, 4, 2, 3, capacity=2),
    "torus": build_torus_city(2, 3, 3),
    "torus_cap2": build_torus_city(2, 2, 2, capacity=2),
}


class TestRoadCounts:
    """Road counts read from the counters against the occupancy rebuild."""

    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["one_run", "stacked"])
    @pytest.mark.parametrize("t", ROAD_COUNT_NETWORKS.values(),
                             ids=ROAD_COUNT_NETWORKS.keys())
    def test_equal_occupancy_sums_in_discrete_mode(self, t, stacked):
        kern = kernel_for(t)
        counts = np.linspace(0, t.counting_size, 6).round().astype(int)
        a = np.stack([init_occupancy(t, count=c, seed=i)
                      for i, c in enumerate(counts)])
        sim = Simulation(t, a if stacked else a[2], DISCRETE)
        for _ in range(6 * t.counting_size):
            z = sim.road_counts()
            assert z.dtype == np.int64
            y = kern.occupancy(sim.x, sim.a)
            assert np.array_equal(z, kern.road_sums(y))
            assert np.array_equal(sim.poised(), y[..., kern.road_last])
            # per approach, priority approaches first: road counts, poised
            assert np.array_equal(sim.approaches(), np.stack(
                [z, y[..., kern.road_last]], -2)[..., kern.into])
            sim.advance()

    def test_exact_while_continuous_counters_are(self):
        n, m, horizon = 45, 15, 300
        t = build_figure_eight(n, m)
        a = np.stack([init_occupancy(t, count=c, seed=c)
                      for c in (5, 15, 25, 35, 45, 55)])
        sim = Simulation(t, a, CONTINUOUS)
        refs = [reference_trajectory(lane.tolist(), n, m, horizon)
                for lane in a]
        a_ref = [{i + 1: Fraction(int(v)) for i, v in enumerate(lane)}
                 for lane in a]
        exact = [True] * len(a)
        checked = 0
        for k in range(horizon + 1):
            z, b = sim.road_counts(), sim.poised()
            for lane, ref in enumerate(refs):
                # floats and Fractions compare exactly
                exact[lane] &= sim.x[lane].tolist() == as_list(ref[k], n + m)
                if exact[lane]:
                    # a count can need more bits than any counter: it must
                    # then be the exact count rounded once
                    y = reference_occupancy(ref[k], a_ref[lane], n, m)
                    assert z[lane].tolist() == [
                        float(sum(y[c + 1] for c in r.cells))
                        for r in t.roads]
                    assert b[lane].tolist() == [y[r.last_cell + 1]
                                                for r in t.roads]
                    checked += 1
            sim.advance()
        # every run is exact for its first 100 steps at least
        assert checked >= 100 * len(a)


class TestDumps:
    def test_counter_lines_format(self, fig8_55):
        states = simulate(fig8_55, A55, CONTINUOUS, horizon=2)
        lines = counter_lines(states).splitlines()
        assert lines[0] == "\t".join(["0"] * 10)
        assert lines[2].split("\t")[0] == "0.5"
        # every digit: integers bare, floats as the shortest decimal that
        # reads back to them
        x = np.array([10 ** 6, 123456789, 0, 7])
        assert counter_lines([x]) == \
            "1000000\t123456789\t0\t7\n"
        x = np.array([10.34375, 0.1, 2 ** -30, 1e6 + 0.5])
        assert counter_lines([x]) == \
            "10.34375\t0.1\t0.0000000009313225746154785\t1000000.5\n"

    def test_integer_rows_print_as_their_floats_do(self):
        # discrete dumps skip the float formatting: the same bytes below
        # 2^53, and exact digits above it
        rng = np.random.default_rng(5)
        states = np.concatenate([rng.integers(0, 2 ** 53, (4, 9)),
                                 rng.integers(-99, 10 ** 6, (4, 9))])
        assert counter_lines(states) == counter_lines(states.astype(float))
        assert counter_lines([[2 ** 53 + 1]]) == "9007199254740993\n"

    def test_occupancy_line_junction_chars(self, fig8_55):
        states = simulate(fig8_55, A55, DISCRETE, horizon=2)
        line, = occupancy_lines(fig8_55, states[1:2], A55).splitlines()
        assert len(line) == fig8_55.counting_size
        assert line == "0011S0100"[:len(line)]

    def test_occupancy_lines_check_the_placement_once(self, monkeypatch):
        import roadphases.dynamics as dynamics_mod
        t = build_torus_city(3, 3, 4, capacity=2)
        a = init_occupancy(t, density=0.6, seed=2)
        states = simulate(t, a, DISCRETE, horizon=50)
        checks = []
        real = dynamics_mod.check_occupancy

        def counting(t, a):
            checks.append(np.shape(a))
            return real(t, a)

        monkeypatch.setattr(dynamics_mod, "check_occupancy", counting)
        text = occupancy_lines(t, states, a)
        assert checks == [a.shape]  # once, not once per state
        assert text == "".join(occupancy_lines(t, [x], a) for x in states)
        assert occupancy_lines(t, states[:0], a) == "\n"

    @pytest.mark.parametrize("name", ["figure_eight_cap2",
                                      "two_junction_cap2", "torus_cap2",
                                      "two_junction_swapped"])
    def test_occupancy_line_matches_position_walk(self, name):
        t = PLACEMENT_NETWORKS[name]
        at_junction = [i for i, (kind, _) in enumerate(walk_positions(t))
                       if kind == "junction"]
        seen = set()
        for seed in range(4):
            a = init_occupancy(t, density=0.7, seed=seed)
            states = simulate(t, a, DISCRETE, horizon=40)
            lines = occupancy_lines(t, states, a).splitlines()
            for x, line in zip(states, lines, strict=True):
                assert line == walk_line(t, occupancy_at(x, a, t))
                seen.update(line[i] for i in at_junction)
        assert seen == ({"0", "W", "S", "B"} if t.junctions[0].capacity == 2
                        else {"0", "W", "S"})
