"""Untimed characterisation of a workload's runs: which become periodic.

A run is periodic from step s with period p when its state at s + p equals
its state at s up to a uniform counter shift (the dynamics carry the shift
along unchanged).  Discrete runs use the program's ``detect_period``
(occupancy, junction parities, light phase).  Continuous runs hash
``x - x[0]`` through the public ``Simulation`` API, plus the policy's phase
key when it has one.  Steps after s + p repeat known work: a run that stops
there, or that never recurs and runs to its horizon, executes only useful
steps.
"""

from __future__ import annotations

import statistics

from roadphases import cli, metrics
from roadphases.dynamics import CONTINUOUS, Simulation, init_occupancy

from checks import expected_densities
from workloads import Workload


def continuous_recurrence(t, a, policy, horizon: int):
    """(start, period) of the first recurrence within horizon, else None."""
    sim = Simulation(t, a, CONTINUOUS, policy)
    phase_key = getattr(policy, "phase_key", lambda k: ())
    seen: dict[tuple, int] = {}
    for k in range(horizon + 1):
        # a 64-bit hash keeps memory flat on wide networks; a collision
        # among a few thousand states has probability below 1e-12
        key = (hash((sim.x - sim.x[0]).tobytes()), phase_key(k))
        if key in seen:
            return seen[key], k - seen[key]
        seen[key] = k
        sim.advance()
    return None


def _recurrence(t, a, mode: str, policy, horizon: int):
    if mode == CONTINUOUS:
        return continuous_recurrence(t, a, policy, horizon)
    found = metrics.detect_period(t, a, policy, max_steps=horizon)
    return None if found is None else (found.start, found.period)


def _summary(found: list, horizon: int) -> dict:
    spans = [s + p for s, p in (f for f in found if f is not None)]
    return {
        "runs": len(found),
        "recurring_share": len(spans) / len(found) if found else 0.0,
        "transient_plus_period_median":
            statistics.median(spans) if spans else None,
        "transient_plus_period_max": max(spans) if spans else None,
        "horizon": horizon,
        # steps up to recurrence plus one period; the horizon otherwise
        "useful_steps": sum(horizon if f is None else sum(f) for f in found),
    }


def characterise(w: Workload, seed: int, cfg, t) -> dict:
    """Recurrence of every run of one pass, grouped by command."""
    out = {"slots": t.n_slots}
    if "diagram" in w.commands:
        densities = expected_densities(w, t)
        mid = densities[len(densities) // 2]
        found = []
        for name in w.series():
            shared = None if name == "global_feedback" else \
                cli.make_policy(name, cfg, t, mid)
            for d in densities:
                count = round(d * t.counting_size)
                policy = shared if name != "global_feedback" else \
                    cli.make_policy(name, cfg, t, count / t.counting_size)
                for s in w.seeds(seed):
                    a = init_occupancy(t, count=count, seed=s)
                    found.append(_recurrence(t, a, w.mode, policy,
                                             w.horizon))
        out["sweep"] = _summary(found, w.horizon)
    if "response" in w.commands:
        count = round(w.response_density * t.counting_size)
        found = []
        for name in w.response_policies:
            policy = cli.make_policy(name, cfg, t, w.response_density)
            for s in w.seeds(seed):
                a = metrics.clustered_occupancy(t, count, seed=s)
                found.append(_recurrence(t, a, "discrete", policy,
                                         w.response_horizon))
        out["response"] = _summary(found, w.response_horizon)
    return out
