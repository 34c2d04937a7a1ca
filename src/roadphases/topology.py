"""Closed road-network topologies built from one-way roads and 2-in/2-out junctions.

A network is a set of one-way roads (each a run of unit cells holding at most
one vehicle) glued together by junctions.  A junction is a special cell with
two incoming roads, two outgoing roads and two internal sub-cells, one per
outgoing direction.  Exactly one of the two incoming roads has priority.
Vehicles leaving a junction split evenly between the two outgoing roads.

State vectors (cumulative counters, occupancies) are indexed by "slots":
one slot per road cell plus two slots per junction.  Densities are defined
over "counting positions": one per road cell plus ONE per junction, so a
network with C road cells and J junctions has C + J counting positions.

Three closed families are provided:

* ``build_figure_eight``   -- two circular roads crossing at one junction.
* ``build_two_junction``   -- two circular roads crossing at two junctions.
* ``build_torus_city``     -- a regular grid of alternating one-way streets
                              wrapped on a torus, priorities by the
                              right-hand rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class RoadSegment:
    """A one-way run of cells between two junctions (possibly the same one)."""

    id: int
    name: str
    length_cells: int
    from_junction: int
    to_junction: int
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

    ``slot_a`` doubles as the cumulative entry counter of the non-priority
    incoming road and as the occupancy slot of vehicles bound for
    ``out_floor``.  ``slot_b`` doubles as the entry counter of the priority
    road and the occupancy slot of vehicles bound for ``out_ceil``.  In
    discrete dynamics the odd entrants exit toward ``out_ceil`` and the even
    ones toward ``out_floor``.
    """

    id: int
    in_priority: int      # road id
    in_nonpriority: int   # road id
    out_ceil: int         # road id fed by slot_b (odd entrants)
    out_floor: int        # road id fed by slot_a (even entrants)
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
    n_slots: int
    counting_size: int

    @property
    def topology_id(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({inner})"

    def road_cell_count(self) -> int:
        return sum(r.length_cells for r in self.roads)

    def counting_positions(self) -> list[tuple[str, int]]:
        """Positions in canonical order: ("cell", slot) or ("junction", id).

        A junction sits at the ordinal place of its slot_a, so the
        figure-eight order is: non-priority cells, junction, priority cells.
        """
        items: list[tuple[int, tuple[str, int]]] = []
        for r in self.roads:
            for c in r.cells:
                items.append((c, ("cell", c)))
        for j in self.junctions:
            items.append((j.slot_a, ("junction", j.id)))
        items.sort(key=lambda kv: kv[0])
        return [pos for _, pos in items]

    def validate(self) -> None:
        """Check structural invariants; raise ValueError on violation."""
        if self.counting_size != self.road_cell_count() + len(self.junctions):
            raise ValueError("counting_size inconsistent with cells/junctions")
        if self.n_slots != self.road_cell_count() + 2 * len(self.junctions):
            raise ValueError("slot count inconsistent")
        seen: set[int] = set()
        for r in self.roads:
            if r.length_cells < 1:
                raise ValueError(f"road {r.id} has no cells")
            for c in r.cells:
                if c in seen:
                    raise ValueError(f"slot {c} assigned twice")
                seen.add(c)
        for j in self.junctions:
            for s in (j.slot_a, j.slot_b):
                if s in seen:
                    raise ValueError(f"slot {s} assigned twice")
                seen.add(s)
            if j.capacity not in (1, 2):
                raise ValueError("junction capacity must be 1 or 2")
            ins = {j.in_priority, j.in_nonpriority}
            if len(ins) != 2:
                raise ValueError("junction needs two distinct incoming roads")
            if len({j.out_ceil, j.out_floor}) != 2:
                raise ValueError("junction needs two distinct outgoing roads")
            for rid in ins:
                if self.roads[rid].to_junction != j.id:
                    raise ValueError("incoming road does not end here")
            for rid in (j.out_ceil, j.out_floor):
                if self.roads[rid].from_junction != j.id:
                    raise ValueError("outgoing road does not start here")
        if seen != set(range(self.n_slots)):
            raise ValueError("slot indices not contiguous")
        if not self._strongly_connected():
            raise ValueError("cell graph is not strongly connected")

    def _successors(self) -> dict[int, list[int]]:
        """Successor slots of each slot (junction slots fan out to both exits)."""
        succ: dict[int, list[int]] = {}
        for r in self.roads:
            dest = self.junctions[r.to_junction]
            entry = dest.slot_b if r.id == dest.in_priority else dest.slot_a
            for c in r.cells:
                succ[c] = [c + 1] if c < r.last_cell else [entry]
        for j in self.junctions:
            outs = [self.roads[j.out_ceil].first_cell,
                    self.roads[j.out_floor].first_cell]
            succ[j.slot_a] = outs
            succ[j.slot_b] = outs
        return succ

    def _strongly_connected(self) -> bool:
        succ = self._successors()
        pred: dict[int, list[int]] = {s: [] for s in succ}
        for s, outs in succ.items():
            for o in outs:
                pred[o].append(s)
        return (_reaches_all(succ, 0, self.n_slots)
                and _reaches_all(pred, 0, self.n_slots))


def _reaches_all(adj: dict[int, list[int]], start: int, n: int) -> bool:
    seen = {start}
    stack = [start]
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
    if capacity not in (1, 2):
        raise ValueError("capacity must be 1 or 2")
    np_road = RoadSegment(0, "np", n - 1, 0, 0, first_cell=0)
    pr_road = RoadSegment(1, "pr", m - 1, 0, 0, first_cell=n)
    junction = JunctionSpec(
        id=0,
        in_priority=1,
        in_nonpriority=0,
        out_ceil=0,    # odd entrants exit onto the non-priority circle
        out_floor=1,
        slot_a=n - 1,
        slot_b=n + m - 1,
        capacity=capacity,
    )
    t = NetworkTopology(
        family="figure_eight",
        params={"n": n, "m": m, "capacity": capacity},
        roads=(np_road, pr_road),
        junctions=(junction,),
        n_slots=n + m,
        counting_size=n + m - 1,
    )
    t.validate()
    return t


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
    if capacity not in (1, 2):
        raise ValueError("capacity must be 1 or 2")
    firsts = [0]
    for l in lengths[:-1]:
        firsts.append(firsts[-1] + l)
    total = sum(lengths)
    # R1: J1 -> J0 (non-priority), R2: J1 -> J0 (priority),
    # R3: J0 -> J1 (non-priority), R4: J0 -> J1 (priority)
    roads = (
        RoadSegment(0, "R1", len_r1, 1, 0, firsts[0]),
        RoadSegment(1, "R2", len_r2, 1, 0, firsts[1]),
        RoadSegment(2, "R3", len_r3, 0, 1, firsts[2]),
        RoadSegment(3, "R4", len_r4, 0, 1, firsts[3]),
    )
    junctions = (
        JunctionSpec(0, in_priority=1, in_nonpriority=0,
                     out_ceil=2, out_floor=3,
                     slot_a=total, slot_b=total + 1, capacity=capacity),
        JunctionSpec(1, in_priority=3, in_nonpriority=2,
                     out_ceil=0, out_floor=1,
                     slot_a=total + 2, slot_b=total + 3, capacity=capacity),
    )
    t = NetworkTopology(
        family="two_junction",
        params={"len_r1": len_r1, "len_r2": len_r2, "len_r3": len_r3,
                "len_r4": len_r4, "capacity": capacity},
        roads=roads,
        junctions=junctions,
        n_slots=total + 4,
        counting_size=total + 2,
    )
    t.validate()
    return t


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
    if capacity not in (1, 2):
        raise ValueError("capacity must be 1 or 2")

    def jid(i: int, j: int) -> int:
        return (i % rows) * cols + (j % cols)

    # Road ids: horizontal segment out of (i, j) is 2*jid, vertical 2*jid+1.
    def h_road(i: int, j: int) -> int:
        return 2 * jid(i, j)

    def v_road(i: int, j: int) -> int:
        return 2 * jid(i, j) + 1

    def h_dest(i: int, j: int) -> int:
        return jid(i, j + 1) if i % 2 == 0 else jid(i, j - 1)

    def v_dest(i: int, j: int) -> int:
        return jid(i + 1, j) if j % 2 == 0 else jid(i - 1, j)

    roads: list[RoadSegment] = []
    for i in range(rows):
        for j in range(cols):
            roads.append(RoadSegment(
                h_road(i, j), f"h{i}.{j}", segment_len, jid(i, j),
                h_dest(i, j), first_cell=segment_len * h_road(i, j)))
            roads.append(RoadSegment(
                v_road(i, j), f"v{i}.{j}", segment_len, jid(i, j),
                v_dest(i, j), first_cell=segment_len * v_road(i, j)))
    roads.sort(key=lambda r: r.id)

    n_cells = 2 * rows * cols * segment_len
    junctions: list[JunctionSpec] = []
    for i in range(rows):
        for j in range(cols):
            # incoming roads: from the horizontal/vertical upstream neighbor
            hj = (j - 1) % cols if i % 2 == 0 else (j + 1) % cols
            vi = (i - 1) % rows if j % 2 == 0 else (i + 1) % rows
            h_in = h_road(i, hj)
            v_in = v_road(vi, j)
            h_out, v_out = h_road(i, j), v_road(i, j)
            if (i + j) % 2 == 0:                    # horizontal priority
                in_pr, in_np = h_in, v_in
                out_ceil, out_floor = v_out, h_out  # odd entrants follow the
            else:                                   # non-priority street
                in_pr, in_np = v_in, h_in
                out_ceil, out_floor = h_out, v_out
            junctions.append(JunctionSpec(
                jid(i, j), in_priority=in_pr, in_nonpriority=in_np,
                out_ceil=out_ceil, out_floor=out_floor,
                slot_a=n_cells + 2 * jid(i, j),
                slot_b=n_cells + 2 * jid(i, j) + 1,
                capacity=capacity))

    t = NetworkTopology(
        family="torus_city",
        params={"rows": rows, "cols": cols, "segment_len": segment_len,
                "capacity": capacity},
        roads=tuple(roads),
        junctions=tuple(junctions),
        n_slots=n_cells + 2 * rows * cols,
        counting_size=n_cells + rows * cols,
    )
    t.validate()
    return t


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


_FAMILY_KEYS = {
    "figure_eight": ("n", "m", "capacity"),
    "two_junction": ("len_r1", "len_r2", "len_r3", "len_r4", "capacity"),
    "torus_city": ("rows", "cols", "segment_len", "capacity"),
}

_BUILDERS = {
    "figure_eight": build_figure_eight,
    "two_junction": build_two_junction,
    "torus_city": build_torus_city,
}


def topology_to_text(t: NetworkTopology) -> str:
    """Key = value description, parseable by parse_topology_text."""
    lines = [f"family = {t.family}"]
    for k in _FAMILY_KEYS[t.family]:
        lines.append(f"{k} = {t.params[k]}")
    return "\n".join(lines) + "\n"


def parse_topology_text(text: str) -> NetworkTopology:
    """Rebuild a topology from its key = value description."""
    kv: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad topology line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        kv[key] = val
    family = kv.pop("family", None)
    if family not in _BUILDERS:
        raise ValueError(f"unknown topology family: {family!r}")
    keys = _FAMILY_KEYS[family]
    unknown = set(kv) - set(keys)
    if unknown:
        raise ValueError(f"unknown topology keys: {sorted(unknown)}")
    args = {}
    for k in keys:
        if k == "capacity":
            args[k] = int(kv.get(k, "1"))
        elif k in kv:
            args[k] = int(kv[k])
        else:
            raise ValueError(f"missing topology key: {k}")
    return _BUILDERS[family](**args)
