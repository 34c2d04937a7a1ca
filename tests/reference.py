"""Independent reference dynamics for any network, traffic lights included.

Deliberately naive: exact Fraction arithmetic, one slot at a time, a direct
transcription of the update rules in the ``dynamics`` module docstring.  It
reads the ``RoadSegment`` and ``JunctionSpec`` fields of a topology (a road
is known by its index, and its ends by the junctions that list it) and
nothing of the engine's kernel, so it shares no index arrays with the code
it checks.  Used only as a test oracle.

The scalar light rules at the end, one junction at a time, are the oracles
of the vectorized policies in ``roadphases.control``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor


def _shares(total, discrete):
    """(share toward out_ceil, share toward out_floor) of total entries."""
    half = Fraction(total, 2)
    return (ceil(half), floor(half)) if discrete else (half, half)


def reference_step(t, x, a, discrete=False, gate=None):
    """One synchronous update of the slot-indexed counter list ``x``.

    ``gate`` is None (priority to the right) or one flag per junction, True
    when the priority road has the green light.
    """
    new = list(x)
    into = {}  # road id -> entry slot its last cell feeds
    out_of = {}  # road id -> junction it leaves
    for j in t.junctions:
        into[j.in_priority] = j.slot_b
        into[j.in_nonpriority] = j.slot_a
        out_of[j.out_ceil] = out_of[j.out_floor] = j
    for rid, r in enumerate(t.roads):
        src = out_of[rid]
        ceil_share, floor_share = _shares(x[src.slot_a] + x[src.slot_b],
                                          discrete)
        for c in r.cells:
            if c == r.first_cell:
                # fed by the junction sub-cell bound for this road
                if rid == src.out_ceil:
                    supply = a[src.slot_b] + ceil_share
                else:
                    supply = a[src.slot_a] + floor_share
            else:
                supply = a[c - 1] + x[c - 1]
            nxt = c + 1 if c != r.last_cell else into[rid]
            new[c] = min(supply, 1 - a[c] + x[nxt])
    for jid, j in enumerate(t.junctions):
        pr_last = t.roads[j.in_priority].last_cell
        np_last = t.roads[j.in_nonpriority].last_cell
        auth = (j.capacity - a[j.slot_a] - a[j.slot_b]
                + x[t.roads[j.out_ceil].first_cell]
                + x[t.roads[j.out_floor].first_cell])
        if gate is None:
            new[j.slot_b] = min(a[pr_last] + x[pr_last], auth - x[j.slot_a])
            new[j.slot_a] = min(a[np_last] + x[np_last],
                                auth - new[j.slot_b])
        else:
            green = 1 if gate[jid] else 0
            new[j.slot_b] = min(a[pr_last] + x[pr_last], auth - x[j.slot_a],
                                x[j.slot_b] + green)
            new[j.slot_a] = min(a[np_last] + x[np_last], auth - x[j.slot_b],
                                x[j.slot_a] + 1 - green)
    return new


def reference_occupancy(t, x, a):
    """Per-slot occupancies from the slot-indexed discrete counters ``x``:
    each slot holds its placed car, plus what entered it, less what left."""
    y = list(a)
    into = {}  # road id -> entry slot its last cell feeds
    for j in t.junctions:
        into[j.in_priority] = j.slot_b
        into[j.in_nonpriority] = j.slot_a
        ceil_share, floor_share = _shares(x[j.slot_a] + x[j.slot_b], True)
        y[j.slot_b] += ceil_share - x[t.roads[j.out_ceil].first_cell]
        y[j.slot_a] += floor_share - x[t.roads[j.out_floor].first_cell]
    for rid, r in enumerate(t.roads):
        for c in r.cells:
            y[c] += x[c] - x[c + 1 if c != r.last_cell else into[rid]]
    return y


def reference_trajectory(t, a_values, horizon, discrete=False, gates=None):
    """Counters for k = 0..horizon, as lists of Fractions; ``gates[k]`` is
    the gate of step k (None throughout for the bare priority rule)."""
    a = [Fraction(v) for v in a_values]
    x = [Fraction(0)] * t.n_slots
    out = [x]
    for k in range(horizon):
        x = reference_step(t, x, a, discrete,
                           None if gates is None else gates[k])
        out.append(x)
    return out


def open_loop_green(plan, junction, k):
    """True when the priority-labelled approach of ``junction`` is green at
    step k under an ``OpenLoopPlan`` (the scalar rule of OpenLoopPolicy)."""
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


def local_feedback_green(inputs):
    """True when road 1 gets green: n2*b1 + z1 >= n1*b2 + z2 (the scalar
    rule of LocalFeedbackPolicy).

    Grants green to the single approach with a vehicle poised to enter, and
    otherwise to the relatively more crowded road; ties go to road 1.
    """
    return (inputs.n2 * inputs.b1 + inputs.z1
            >= inputs.n1 * inputs.b2 + inputs.z2)
