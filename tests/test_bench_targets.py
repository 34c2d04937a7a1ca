"""The benchmark tracer wraps program names; each must still exist.

A name the program no longer has is skipped by the tracer, and its per-layer
metrics then read 0 without any error.  This test turns such a rename into a
failure.  It reads ``perfbench/tracer.py`` and writes nothing there (no
bytecode cache either).
"""

import types
from pathlib import Path

from roadphases import control
from roadphases.topology import build_torus_city

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# wrapped names the program has dropped on purpose: the topology text
# parser went when [topology] became an ordinary config section
KNOWN_GONE = {"topology.parse_topology_text"}


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for module, path, _name, _kind in tracer.TARGETS:
        owner = tracer._MODULES[module]
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert set(missing) <= KNOWN_GONE, missing


def test_traced_solve_records_its_model():
    """The tracer hashes each solved model's fields; a renamed or reshaped
    LQModel field would fail every traced run."""
    tracer = load_tracer().Tracer()
    with tracer.installed():
        control.solve_lqr(control.build_lq_model(build_torus_city(2, 2, 2)))
    assert len(tracer.lqr_models) == 1
