"""Closed road-network topologies built from one-way roads and 2-in/2-out junctions.

A network is a set of one-way roads (each a run of unit cells holding at most
one vehicle) glued together by junctions.  A junction is a special cell with
two incoming roads, two outgoing roads and two internal sub-cells, one per
outgoing direction.  Exactly one of the two incoming roads has priority.
Vehicles leaving a junction split evenly between the two outgoing roads.

State vectors (cumulative counters, occupancies) are indexed by "slots":
one slot per road cell plus two slots per junction.  Densities are defined
over "counting positions": one per road cell plus ONE per junction, so a
network with C road cells and J junctions has C + J counting positions
(listed in slot order by ``dynamics.StepKernel.counting``).

The junction lists are the one description of how roads connect.  A road
or a junction is known by its position in ``roads`` or ``junctions``; a
road leaves the junction that lists it as an exit and enters the one that
lists it as an entry, and the slot and counting sizes follow from the road
lengths and the junction count.  Every ``NetworkTopology`` is validated when
it is constructed, by a builder, by hand or by ``dataclasses.replace``: its
slots tile 0..n-1, the junctions' entries and exits each list every road
once, and the network is strongly connected.

Three closed families are provided:

* ``build_figure_eight``   -- two circular roads crossing at one junction.
* ``build_two_junction``   -- two circular roads crossing at two junctions.
* ``build_torus_city``     -- a regular grid of alternating one-way streets
                              wrapped on a torus, priorities by the
                              right-hand rule.

``build_topology`` builds one of them from a config's ``[topology]`` pairs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


@dataclass(frozen=True)
class RoadSegment:
    """A one-way run of cells between two junctions (possibly the same one).

    Its id is its index in ``NetworkTopology.roads``, and its ends are the
    junctions that list it: it leaves the one naming it in ``out_ceil`` or
    ``out_floor`` and enters the one naming it in ``in_priority`` or
    ``in_nonpriority``.
    """

    length_cells: int
    first_cell: int  # slot index of the road's first cell

    @property
    def cells(self) -> range:
        return range(self.first_cell, self.first_cell + self.length_cells)

    @property
    def last_cell(self) -> int:
        return self.first_cell + self.length_cells - 1


@dataclass(frozen=True)
class JunctionSpec:
    """A 2-in/2-out junction with two internal direction sub-cells.

    Its id is its index in ``NetworkTopology.junctions``; the four road
    fields name roads by their index in ``NetworkTopology.roads``.
    ``slot_a`` doubles as the cumulative entry counter of the non-priority
    incoming road and as the occupancy slot of vehicles bound for
    ``out_floor``.  ``slot_b`` doubles as the entry counter of the priority
    road and the occupancy slot of vehicles bound for ``out_ceil``.  In
    discrete dynamics the odd entrants exit toward ``out_ceil`` and the even
    ones toward ``out_floor``.
    """

    in_priority: int
    in_nonpriority: int
    out_ceil: int         # road fed by slot_b (odd entrants)
    out_floor: int        # road fed by slot_a (even entrants)
    slot_a: int           # slot index
    slot_b: int           # slot index
    capacity: int = 1


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Immutable cell graph; safe to share across concurrent simulations."""

    family: str
    params: dict
    roads: tuple[RoadSegment, ...]
    junctions: tuple[JunctionSpec, ...]

    @property
    def topology_id(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({inner})"

    @cached_property
    def n_slots(self) -> int:
        """Road cells plus two sub-cells per junction."""
        return (sum(r.length_cells for r in self.roads)
                + 2 * len(self.junctions))

    @cached_property
    def counting_size(self) -> int:
        """Road cells plus one counting position per junction."""
        return self.n_slots - len(self.junctions)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check structural invariants; raise ValueError on violation.

        Given the checks before it, strong connectivity of the junction
        graph is that of the cell graph: every cell lies on a road, and both
        sub-cells of a junction feed both of its exits.
        """
        roads, junctions = self.roads, self.junctions
        for i, r in enumerate(roads):
            if r.length_cells < 1:
                raise ValueError(f"road {i} has no cells")
        # road cells and junction sub-cells as (first slot, size) runs,
        # which must tile 0 .. n_slots - 1
        end = 0
        for start, size in sorted(
                [(r.first_cell, r.length_cells) for r in roads]
                + [(s, 1) for j in junctions for s in (j.slot_a, j.slot_b)]):
            if start != end:
                raise ValueError(f"slot {min(start, end)} missing or reused")
            end += size
        every_road = list(range(len(roads)))
        if sorted(r for j in junctions
                  for r in (j.in_priority, j.in_nonpriority)) != every_road:
            raise ValueError("junction in-roads disagree with the roads: "
                             "each road must enter exactly one junction")
        if sorted(r for j in junctions
                  for r in (j.out_ceil, j.out_floor)) != every_road:
            raise ValueError("junction out-roads disagree with the roads: "
                             "each road must leave exactly one junction")
        if any(j.capacity not in (1, 2) for j in junctions):
            raise ValueError("junction capacity must be 1 or 2")
        # one (from, to) junction edge per road
        leaves = {r: i for i, j in enumerate(junctions)
                  for r in (j.out_ceil, j.out_floor)}
        edges = [(leaves[r], i) for i, j in enumerate(junctions)
                 for r in (j.in_priority, j.in_nonpriority)]
        if not (junctions and _reaches_all(edges, len(junctions))
                and _reaches_all([(v, u) for u, v in edges], len(junctions))):
            raise ValueError("network is not strongly connected")


def _reaches_all(edges: list[tuple[int, int]], n: int) -> bool:
    """Whether node 0 of a directed graph on nodes 0..n-1 reaches them all."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    seen, stack = {0}, [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def build_figure_eight(n: int, m: int, capacity: int = 1) -> NetworkTopology:
    """Two circular roads crossing at one junction (an 8 shape).

    The non-priority circle has ``n - 1`` road cells plus the junction, the
    priority circle has ``m - 1`` road cells plus the junction.  Slot layout
    matches the classical indexing: non-priority cells first, then the
    junction sub-cell fed from the non-priority road, then the priority
    cells, then the other sub-cell.
    """
    if n < 2 or m < 2:
        raise ValueError("figure-eight needs n >= 2 and m >= 2")
    # road 0 is the non-priority circle, onto which odd entrants exit
    junction = JunctionSpec(in_priority=1, in_nonpriority=0, out_ceil=0,
                            out_floor=1, slot_a=n - 1, slot_b=n + m - 1,
                            capacity=capacity)
    return NetworkTopology(
        family="figure_eight",
        params={"n": n, "m": m, "capacity": capacity},
        roads=(RoadSegment(n - 1, 0), RoadSegment(m - 1, n)),
        junctions=(junction,),
    )


def build_two_junction(len_r1: int, len_r2: int, len_r3: int,
                       len_r4: int, capacity: int = 1) -> NetworkTopology:
    """Two circular roads crossing at two junctions (four road segments).

    R1 and R2 enter junction 0 where R2 has priority; R3 and R4 enter
    junction 1 where R4 has priority.  One circle is R1+R3, the other
    R2+R4, so the non-priority segments R1 and R3 chain into the single
    non-priority circuit and R2+R4 form the priority circuit.
    """
    lengths = (len_r1, len_r2, len_r3, len_r4)
    if any(l < 2 for l in lengths):
        raise ValueError("all road lengths must be >= 2")
    firsts = [0]
    for l in lengths[:-1]:
        firsts.append(firsts[-1] + l)
    total = sum(lengths)
    # R1..R4 are roads 0..3.  R1: J1 -> J0 (non-priority),
    # R2: J1 -> J0 (priority), R3: J0 -> J1 (non-priority),
    # R4: J0 -> J1 (priority)
    junctions = (
        JunctionSpec(in_priority=1, in_nonpriority=0,
                     out_ceil=2, out_floor=3,
                     slot_a=total, slot_b=total + 1, capacity=capacity),
        JunctionSpec(in_priority=3, in_nonpriority=2,
                     out_ceil=0, out_floor=1,
                     slot_a=total + 2, slot_b=total + 3, capacity=capacity),
    )
    return NetworkTopology(
        family="two_junction",
        params={"len_r1": len_r1, "len_r2": len_r2, "len_r3": len_r3,
                "len_r4": len_r4, "capacity": capacity},
        roads=tuple(map(RoadSegment, lengths, firsts)),
        junctions=junctions,
    )


def build_torus_city(rows: int, cols: int, segment_len: int,
                     capacity: int = 1) -> NetworkTopology:
    """Regular city on a torus: alternating one-way streets, right-hand rule.

    Row ``i`` flows east when ``i`` is even, west otherwise; column ``j``
    flows south when ``j`` is even, north otherwise.  Each inter-junction
    segment has ``segment_len`` cells.  At a junction the street approaching
    from the right of the other has priority, which works out to: horizontal
    traffic has priority at junction (i, j) iff ``i + j`` is even.
    """
    if rows < 2 or cols < 2:
        raise ValueError("torus city needs rows >= 2 and cols >= 2")
    if segment_len < 1:
        raise ValueError("segment_len must be >= 1")

    def jid(i: int, j: int) -> int:
        return (i % rows) * cols + (j % cols)

    n_roads = 2 * rows * cols
    n_cells = n_roads * segment_len
    junctions: list[JunctionSpec] = []
    for i in range(rows):
        for j in range(cols):
            # incoming roads: from the horizontal/vertical upstream neighbor
            hj = (j - 1) % cols if i % 2 == 0 else (j + 1) % cols
            vi = (i - 1) % rows if j % 2 == 0 else (i + 1) % rows
            # road ids: the horizontal segment out of (i, j) is 2*jid,
            # the vertical one 2*jid+1
            h_in, v_in = 2 * jid(i, hj), 2 * jid(vi, j) + 1
            h_out, v_out = 2 * jid(i, j), 2 * jid(i, j) + 1
            if (i + j) % 2 == 0:                    # horizontal priority
                in_pr, in_np = h_in, v_in
                out_ceil, out_floor = v_out, h_out  # odd entrants follow the
            else:                                   # non-priority street
                in_pr, in_np = v_in, h_in
                out_ceil, out_floor = h_out, v_out
            junctions.append(JunctionSpec(
                in_priority=in_pr, in_nonpriority=in_np,
                out_ceil=out_ceil, out_floor=out_floor,
                slot_a=n_cells + 2 * jid(i, j),
                slot_b=n_cells + 2 * jid(i, j) + 1,
                capacity=capacity))

    return NetworkTopology(
        family="torus_city",
        params={"rows": rows, "cols": cols, "segment_len": segment_len,
                "capacity": capacity},
        roads=tuple(RoadSegment(segment_len, k * segment_len)
                    for k in range(n_roads)),
        junctions=tuple(junctions),
    )


def ratio_r(t: NetworkTopology) -> Fraction:
    """Fraction of counting positions on the non-priority side.

    Each non-priority road contributes its cells plus one junction position
    (the junction it feeds), so the figure-eight gives exactly
    n / (n + m - 1).  For the symmetric torus city this is
    (segment_len + 1) / (2 * segment_len + 1), i.e. one half up to a
    single-position correction per junction.
    """
    np_positions = sum(t.roads[j.in_nonpriority].length_cells + 1
                       for j in t.junctions)
    return Fraction(np_positions, t.counting_size)


_BUILDERS = {
    "figure_eight": build_figure_eight,
    "two_junction": build_two_junction,
    "torus_city": build_torus_city,
}


def build_topology(pairs) -> NetworkTopology:
    """A topology from the (key, value) pairs of a ``[topology]`` section:
    ``family`` and its builder's integer arguments, of which those with a
    default may be left out.  Any fault raises ValueError."""
    kv = dict(pairs)
    family = kv.pop("family", None)
    if family not in _BUILDERS:
        raise ValueError(f"unknown topology family: {family!r}")
    build = _BUILDERS[family]
    args = {k: int(v) for k, v in kv.items()}
    try:
        inspect.signature(build).bind(**args)
    except TypeError as e:
        raise ValueError(f"bad {family} topology: {e}") from None
    return build(**args)
