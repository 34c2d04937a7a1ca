"""Network builders: sizes, wiring invariants, ratios, [topology] pairs."""

import dataclasses
from fractions import Fraction

import pytest

from roadphases.dynamics import kernel_for
from roadphases.topology import (
    JunctionSpec,
    NetworkTopology,
    RoadSegment,
    build_figure_eight,
    build_topology,
    build_torus_city,
    build_two_junction,
    ratio_r,
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
        for jid, j in enumerate(t.junctions):
            i, col = divmod(jid, 4)
            horizontal_pr = j.in_priority % 2 == 0  # h roads have even ids
            assert horizontal_pr == ((i + col) % 2 == 0)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            build_torus_city(1, 4, 9)
        with pytest.raises(ValueError):
            build_torus_city(4, 4, 0)


def road_ends(t):
    """(from, to) junction of each road, read from the junction lists."""
    leaves = {r: i for i, j in enumerate(t.junctions)
              for r in (j.out_ceil, j.out_floor)}
    enters = {r: i for i, j in enumerate(t.junctions)
              for r in (j.in_priority, j.in_nonpriority)}
    return [(leaves[r], enters[r]) for r in range(len(t.roads))]


def torus_ends(rows, cols):
    """The documented streets: road 2*jid leaves junction jid = (i, j)
    along row i, east when i is even; road 2*jid+1 along column j, south
    when j is even."""
    def jid(i, j):
        return (i % rows) * cols + j % cols

    ends = []
    for i in range(rows):
        for j in range(cols):
            ends.append((jid(i, j), jid(i, j + 1 if i % 2 == 0 else j - 1)))
            ends.append((jid(i, j), jid(i + 1 if j % 2 == 0 else i - 1, j)))
    return ends


class TestWiring:
    @pytest.mark.parametrize("build,args,ends", [
        (build_figure_eight, (5, 5), [(0, 0), (0, 0)]),
        # R1, R2: J1 -> J0 and R3, R4: J0 -> J1
        (build_two_junction, (3, 4, 5, 6), [(1, 0), (1, 0), (0, 1), (0, 1)]),
        (build_torus_city, (2, 2, 1), torus_ends(2, 2)),
        (build_torus_city, (2, 4, 3), torus_ends(2, 4)),
        (build_torus_city, (3, 5, 2), torus_ends(3, 5)),
        (build_torus_city, (4, 4, 9), torus_ends(4, 4)),
    ])
    def test_road_ends(self, build, args, ends):
        t = build(*args)
        assert road_ends(t) == ends
        if build is build_torus_city:
            # horizontal roads have even ids, and have priority at (i, j)
            # iff i + j is even
            for jid, j in enumerate(t.junctions):
                i, col = divmod(jid, args[1])
                assert (j.in_priority % 2 == 0) == ((i + col) % 2 == 0)


def _network(roads, junctions):
    return NetworkTopology("hand_built", {}, tuple(roads), tuple(junctions))


def _fig8_parts(road0, first):
    """A 5/5 figure-eight's roads and junction, road ids and slots
    shifted."""
    roads = [RoadSegment(4, first), RoadSegment(4, first + 5)]
    junction = JunctionSpec(in_priority=road0 + 1, in_nonpriority=road0,
                            out_ceil=road0, out_floor=road0 + 1,
                            slot_a=first + 4, slot_b=first + 9)
    return roads, [junction]


_TJ = build_two_junction(3, 4, 5, 6)


def _two_junction_with(junctions):
    """The 3/4/5/6 two-junction network with its junctions replaced."""
    return _network(_TJ.roads, junctions)


def _swap_exits(junctions):
    j0, j1 = junctions
    return (dataclasses.replace(j0, out_ceil=j1.out_ceil,
                                out_floor=j1.out_floor),
            dataclasses.replace(j1, out_ceil=j0.out_ceil,
                                out_floor=j0.out_floor))


_F8_ROADS, _F8_JUNCTIONS = _fig8_parts(0, 0)

# Each constructs a NetworkTopology, by hand or by dataclasses.replace,
# that breaks one structural rule.
BROKEN_NETWORKS = {
    "unlisted_road": lambda: _network(
        _F8_ROADS + [RoadSegment(1, 10)], _F8_JUNCTIONS),
    "disjoint_figure_eights": lambda: _network(
        *(a + b for a, b in zip(_fig8_parts(0, 0), _fig8_parts(2, 10)))),
    "slot_used_twice": lambda: _network(
        [_F8_ROADS[0], dataclasses.replace(_F8_ROADS[1], first_cell=4)],
        _F8_JUNCTIONS),
    "capacity_3": lambda: _network(
        _F8_ROADS, [dataclasses.replace(_F8_JUNCTIONS[0], capacity=3)]),
    "in_road_twice": lambda: _two_junction_with((
        dataclasses.replace(_TJ.junctions[0], in_nonpriority=1),
        _TJ.junctions[1])),
    "out_road_twice": lambda: _two_junction_with((
        dataclasses.replace(_TJ.junctions[0], out_floor=2),
        _TJ.junctions[1])),
    "zero_length_road": lambda: _network(
        [dataclasses.replace(_F8_ROADS[0], length_cells=0), _F8_ROADS[1]],
        _F8_JUNCTIONS),
    # every road listed once, but each junction now feeds only itself
    "exits_swapped": lambda: _two_junction_with(_swap_exits(_TJ.junctions)),
    "replaced_capacity_3": lambda: dataclasses.replace(
        build_figure_eight(5, 5), junctions=(
            dataclasses.replace(_F8_JUNCTIONS[0], capacity=3),)),
}


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
        # slot successors from the kernel's routing: a road cell feeds the
        # next cell or its junction's entry slot, and both sub-cells of a
        # junction feed the first cells of both exits
        kern = kernel_for(t)
        succ = {int(c): [int(kern.succ[c])] for c in kern.rc}
        for a, b in zip(kern.slot_a.tolist(), kern.slot_b.tolist()):
            succ[a] = succ[b] = [int(kern.succ[b]), int(kern.succ[a])]
        assert sorted(succ) == list(range(t.n_slots))
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

    @pytest.mark.parametrize("case,message", [
        ("unlisted_road", "in-roads disagree"),
        ("disjoint_figure_eights", "not strongly connected"),
        ("slot_used_twice", "slot 4 missing or reused"),
        ("capacity_3", "capacity must be 1 or 2"),
        ("in_road_twice", "in-roads disagree"),
        ("out_road_twice", "out-roads disagree"),
        ("zero_length_road", "road 0 has no cells"),
        ("exits_swapped", "not strongly connected"),
        ("replaced_capacity_3", "capacity must be 1 or 2"),
    ])
    def test_rejects_broken_networks(self, case, message):
        with pytest.raises(ValueError, match=message):
            BROKEN_NETWORKS[case]()

    def test_counting_positions_cover_everything(self):
        t = build_two_junction(4, 3, 5, 2)
        counting = kernel_for(t).counting
        assert counting.size == t.counting_size
        # every road cell once, and each junction once, at its slot_a
        assert counting.tolist() == sorted(
            [c for r in t.roads for c in r.cells]
            + [j.slot_a for j in t.junctions])


class TestSerialization:
    """build_topology: a network from the pairs of its [topology] section."""

    @pytest.mark.parametrize("build,args", [
        (build_figure_eight, (45, 15)),
        (build_figure_eight, (5, 5)),
        (build_two_junction, (20, 10, 10, 20)),
        (build_torus_city, (4, 4, 9)),
        (build_torus_city, (2, 3, 2, 2)),
    ])
    def test_round_trip(self, build, args):
        # a network's own family and params, as the text values that
        # configparser reads from [topology], rebuild an equal network
        t = build(*args)
        again = build_topology([("family", t.family)]
                               + [(k, str(v)) for k, v in t.params.items()])
        assert again.family == t.family
        assert again.params == t.params
        assert again.counting_size == t.counting_size
        assert again.junctions == t.junctions

    def test_parse_rejects_unknown(self):
        fig8 = ("family", "figure_eight")
        with pytest.raises(ValueError, match="unknown topology family"):
            build_topology([("family", "pentagon")])
        with pytest.raises(ValueError, match="unknown topology family"):
            build_topology([("n", "5"), ("m", "5")])
        with pytest.raises(ValueError, match="bad figure_eight topology"):
            build_topology([fig8, ("n", "5"), ("q", "2"), ("m", "5")])
        with pytest.raises(ValueError, match="bad figure_eight topology"):
            build_topology([fig8, ("n", "5")])
        with pytest.raises(ValueError):
            build_topology([fig8, ("n", "5"), ("m", "five")])

    def test_capacity_defaults_to_one(self):
        t = build_topology([("family", "torus_city"), ("rows", "2"),
                            ("cols", "3"), ("segment_len", "2")])
        assert t.params["capacity"] == 1
        assert {j.capacity for j in t.junctions} == {1}
