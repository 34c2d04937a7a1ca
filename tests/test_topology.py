"""Network builders: sizes, wiring invariants, ratios, serialization."""

from fractions import Fraction

import pytest

from roadphases.dynamics import kernel_for
from roadphases.topology import (
    build_figure_eight,
    build_torus_city,
    build_two_junction,
    parse_topology_text,
    ratio_r,
    topology_to_text,
)


class TestFigureEight:
    def test_table_instance_layout(self):
        t = build_figure_eight(5, 5)
        assert t.n_slots == 10
        assert t.counting_size == 9
        j = t.junctions[0]
        assert (j.slot_a, j.slot_b) == (4, 9)
        assert t.roads[0].cells == range(0, 4)
        assert t.roads[1].cells == range(5, 9)

    def test_asymmetric_instance(self):
        t = build_figure_eight(45, 15)
        assert t.counting_size == 59
        assert ratio_r(t) == Fraction(45, 59)

    def test_smallest_instance(self):
        t = build_figure_eight(2, 2, capacity=2)
        assert t.n_slots == 4
        assert t.counting_size == 3
        assert t.junctions[0].capacity == 2

    def test_counting_size_formula_exhaustive(self):
        for n in range(2, 201):
            for m in (2, 3, n, 200):
                assert build_figure_eight(n, m).counting_size == n + m - 1

    @pytest.mark.parametrize("n,m", [(1, 5), (5, 1), (0, 0), (2, 1)])
    def test_rejects_degenerate(self, n, m):
        with pytest.raises(ValueError):
            build_figure_eight(n, m)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            build_figure_eight(5, 5, capacity=3)


class TestTwoJunction:
    def test_standard_instance(self):
        t = build_two_junction(20, 10, 10, 20)
        assert t.counting_size == 62
        assert len(t.junctions) == 2
        assert [(j.in_priority, j.in_nonpriority) for j in t.junctions] == [
            (1, 0), (3, 2)]
        # non-priority circuit R1 + R3 plus the two junctions
        assert ratio_r(t) == Fraction(32, 62)
        assert abs(ratio_r(t) - Fraction(1, 2)) <= Fraction(2, 62)

    def test_priority_unique_per_junction(self):
        t = build_two_junction(5, 7, 9, 11)
        priority = {j.in_priority for j in t.junctions}
        nonpriority = {j.in_nonpriority for j in t.junctions}
        assert priority == {1, 3} and nonpriority == {0, 2}

    def test_symmetric(self):
        t = build_two_junction(10, 10, 10, 10)
        assert ratio_r(t) == Fraction(22, 42)

    def test_r_constant_across_sizes(self):
        a = build_two_junction(20, 10, 10, 20)
        b = build_two_junction(30, 15, 15, 30)
        assert abs(ratio_r(a) - ratio_r(b)) < Fraction(1, 100)

    def test_relabel_invariance(self):
        # swapping the two circles relabels every cell but preserves adjacency
        a = build_two_junction(20, 10, 14, 24)
        b = build_two_junction(24, 14, 10, 20)
        assert ratio_r(a) == ratio_r(b)

    def test_rejects_short_roads(self):
        with pytest.raises(ValueError):
            build_two_junction(20, 1, 10, 20)


class TestTorusCity:
    def test_four_by_four(self):
        t = build_torus_city(4, 4, 9)
        assert t.counting_size == 304
        assert len(t.junctions) == 16
        assert len(t.roads) == 32

    def test_two_by_four(self):
        t = build_torus_city(2, 4, 9)
        assert len(t.junctions) == 8
        assert t.counting_size == 152

    def test_minimal_city(self):
        t = build_torus_city(2, 2, 1)
        assert len(t.junctions) == 4
        assert t.counting_size == 12

    def test_ratio_near_half(self):
        t = build_torus_city(4, 4, 9)
        assert ratio_r(t) == Fraction(10, 19)

    def test_priority_checkerboard(self):
        t = build_torus_city(4, 4, 3)
        for j in t.junctions:
            i, col = divmod(j.id, 4)
            horizontal_pr = t.roads[j.in_priority].name.startswith("h")
            assert horizontal_pr == ((i + col) % 2 == 0)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            build_torus_city(1, 4, 9)
        with pytest.raises(ValueError):
            build_torus_city(4, 4, 0)


class TestStructure:
    @pytest.mark.parametrize("build,args", [
        (build_figure_eight, (5, 5)),
        (build_figure_eight, (2, 2)),
        (build_two_junction, (20, 10, 10, 20)),
        (build_torus_city, (2, 4, 2)),
        (build_torus_city, (3, 3, 1)),
    ])
    def test_validate_passes(self, build, args):
        build(*args).validate()

    def test_closure_every_cell_on_a_cycle(self):
        t = build_torus_city(2, 2, 2)
        succ = t._successors()
        for start in range(t.n_slots):
            seen = set()
            frontier = {start}
            while frontier:
                nxt = set()
                for s in frontier:
                    for o in succ[s]:
                        if o not in seen:
                            seen.add(o)
                            nxt.add(o)
                frontier = nxt
            assert start in seen  # returns to itself

    def test_counting_positions_cover_everything(self):
        t = build_two_junction(4, 3, 5, 2)
        counting = kernel_for(t).counting
        assert counting.size == t.counting_size
        # every road cell once, and each junction once, at its slot_a
        assert counting.tolist() == sorted(
            [c for r in t.roads for c in r.cells]
            + [j.slot_a for j in t.junctions])


class TestSerialization:
    @pytest.mark.parametrize("build,args", [
        (build_figure_eight, (45, 15)),
        (build_figure_eight, (5, 5)),
        (build_two_junction, (20, 10, 10, 20)),
        (build_torus_city, (4, 4, 9)),
    ])
    def test_round_trip(self, build, args):
        t = build(*args)
        again = parse_topology_text(topology_to_text(t))
        assert again.family == t.family
        assert again.params == t.params
        assert again.counting_size == t.counting_size

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_topology_text("family = pentagon\n")
        with pytest.raises(ValueError):
            parse_topology_text("family = figure_eight\nn = 5\nq = 2\nm = 5\n")
        with pytest.raises(ValueError):
            parse_topology_text("family = figure_eight\nn = 5\n")
